"""Production-path benchmark for pdf_extractor_ray (see perfbench/README.md)."""
