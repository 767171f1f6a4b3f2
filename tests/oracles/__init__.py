"""Reference implementations that pin the shipped fast paths in tests."""
