"""Code the library replaced, kept as test oracles.

Each module here is the earlier, slower implementation of a library
function, kept verbatim apart from its names.  The differential tests
next to it draw inputs and check that the library and its oracle give
the same answer, or raise the same error.
"""
