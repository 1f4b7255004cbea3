"""Set-up as a fresh process pays it: start the interpreter, import weylcyc and
build the inputs' library objects.  Reads the inputs' wire forms as JSON on
standard input and prints "ready" once the first operation could start;
run.py times it from process start to that line."""

import json
import sys

import ops

ops.setup(ops.Api(), json.load(sys.stdin))
print("ready", flush=True)
