"""Reference implementations the production code is compared against."""
