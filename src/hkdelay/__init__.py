"""Simulation and analysis of Hegselmann-Krause consensus dynamics with
transmission-type and reaction-type delay."""

__version__ = "0.1.0"
