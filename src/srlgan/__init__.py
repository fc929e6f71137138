"""Sparse-regularized conditional GAN for user cold-start recommendation."""
