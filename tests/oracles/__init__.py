"""Differential reference implementations the tests compare the
production engines against."""
