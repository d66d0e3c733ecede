"""Checkpoint/resume tests."""
