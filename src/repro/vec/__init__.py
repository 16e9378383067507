"""Array-backend name for benchmark provenance (see :mod:`.backend`)."""
