from profspan.cli import main
raise SystemExit(main())
