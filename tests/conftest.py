from hypothesis import settings

# property tests check the same examples on every run and never time out
settings.register_profile("freecomm", derandomize=True, deadline=None)
settings.load_profile("freecomm")
