"""End-to-end benchmark of the MQO solver server (see README.md)."""
