"""The adversary-scheduled network simulator.

`scenario` holds the scenario file format, `generators` the built-in
schedules, `runner` the deterministic event loop and `trace` the trace file
format. Import each name from its module.
"""
