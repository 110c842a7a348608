"""One set-up sample in a fresh interpreter: prints the seconds taken to
import cokernel_lab and run one minimal request per ring or field of the
workload named as the only argument, then the mean reference-kernel time
of the runs made after the import and after each request.
perfbench/run.py starts it."""

import sys

import run  # perfbench/ is on sys.path as the script's directory

_, seconds, kernel = run.timed_setup(sys.argv[1])
print(seconds, kernel)
