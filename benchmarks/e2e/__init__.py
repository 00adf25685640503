"""End-to-end benchmark of ``repro.api`` sessions (see README.md in this directory)."""
