# Imported before any test module. Each test module imports numpy before
# normda, and OpenBLAS reads its thread count once, when numpy loads it; so
# without this import the suite would run BLAS on the machine's default
# thread count while `import normda` reports its one-thread pin in
# os.environ (see normda/__init__.py and test_threads.py).
import normda  # noqa: F401
