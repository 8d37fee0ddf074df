from hypothesis import settings

# Derandomized, so a run draws the same examples every time, and with no
# per-example deadline, which timing noise on a loaded host would trip.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
