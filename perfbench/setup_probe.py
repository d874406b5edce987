"""Time one cold set-up of the program in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SPEC [SPEC ...]

SPEC is `p,n` or `p,n,c0:c1:...:cn` (an explicit modulus).  The timed region
is the import of sbox_spectra from SRC_DIR plus, for each SPEC, make_field
and the exp/log tables (via Field.generator).  Interpreter start-up is not
timed.  Prints the seconds, and the host's pace probed right after (see
pace.py), as JSON on stdout.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, specs = argv[0], []
    for text in argv[1:]:
        parts = text.split(",")
        modulus = [int(c) for c in parts[2].split(":")] if len(parts) > 2 else None
        specs.append((int(parts[0]), int(parts[1]), modulus))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import sbox_spectra

    for p, n, modulus in specs:
        sbox_spectra.make_field(p, n, modulus).generator
    seconds = time.perf_counter() - start
    import pace  # after the timed region: it imports NumPy

    print(json.dumps({"seconds": seconds, "pace": pace.probe(),
                      "module": sbox_spectra.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
