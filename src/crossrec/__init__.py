"""crossrec: implicit-feedback recommenders with attribute-aware scoring."""
