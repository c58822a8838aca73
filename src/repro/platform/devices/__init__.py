"""Simulated sensors, actuators and their device drivers."""
