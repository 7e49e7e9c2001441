"""Starts the CLI processes of the cli-cold workload.

A child forked from a large process reports that process's size as its
own peak RSS, and the workload's process holds the reference answers.
This process stays small, so the peak RSS of its children is theirs.
One request per line on stdin, a JSON list [argv, stdout path, stderr
path], is answered with the exit status; an empty line is answered
with the largest peak RSS of the children so far, in MB.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        if not line.strip():
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            print(rss / 1024.0, flush=True)
            continue
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            print(subprocess.run(argv, stdout=out, stderr=err,
                                 timeout=120).returncode, flush=True)


if __name__ == "__main__":
    main()
