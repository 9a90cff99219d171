"""Write the reference diagrams the benchmark checks against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once at seed 0 and stores every cell's size and diagram
in ``perfbench/reference/<workload>.json``.  Regenerate only when a change
is meant to alter the diagrams, and say why in the change.
"""

import sys

from run import load_library


def main(names):
    load_library()
    import workloads

    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        cells = workload.run(workload.build(0))
        workloads.write_reference(name, cells)
        print(f"{name}: {sum(len(c.complex) for c in cells)} simplices")


if __name__ == "__main__":
    main(sys.argv[1:])
