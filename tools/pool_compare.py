"""How far two ``pool_digest.py --dump`` files are apart, per command.

    python3 tools/pool_compare.py parent.json change.json

For each command (``moments``, ``neumann``, ...) it prints how many configs
moved and the largest deviation of a number in their output.  Outputs are
compared token by token: every non-numeric part, the exit code and the set
of configs must match exactly, and each number pair is measured under the
README's 16-eps rule, |a - b| / max(1, |a|): absolute below 1, relative
above.  The largest deviation is printed as that ratio and in eps units.
Exits 1 if any config's output differs past that rule, 0 otherwise.
"""

import json
import math
import re
import sys

EPS = sys.float_info.epsilon
TOL = 16 * EPS
# a number standing alone: not part of an identifier or a hex digest
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def deviation(a: str, b: str) -> float:
    """Largest |x - y| / max(1, |x|) over the numbers of two outputs.

    ``inf`` when the outputs differ anywhere but in their numbers.
    """
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return math.inf
    worst = 0.0
    for x_tok, y_tok in zip(pa[1::2], pb[1::2]):
        x, y = float(x_tok), float(y_tok)
        worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    return worst


def compare(old: dict, new: dict) -> tuple:
    """Per-command rows (command, configs, moved, worst) and the unmatched keys."""
    unmatched = sorted(set(old) ^ set(new))
    stats: dict = {}
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        configs, moved, worst = stats.get(a["command"], (0, 0, 0.0))
        configs += 1
        if (a["code"], a["stdout"], a["stderr"]) != (b["code"], b["stdout"], b["stderr"]):
            moved += 1
            gap = math.inf if a["code"] != b["code"] or a["command"] != b["command"] \
                else max(deviation(a["stdout"], b["stdout"]),
                         deviation(a["stderr"], b["stderr"]))
            worst = max(worst, gap)
        stats[a["command"]] = (configs, moved, worst)
    return [(command, *stats[command]) for command in sorted(stats)], unmatched


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    rows, unmatched = compare(old, new)
    ok = not unmatched
    for key in unmatched:
        print(f"{key}: in only one file")
    for command, configs, moved, worst in rows:
        ok = ok and worst <= TOL
        print(f"{command}: {moved} of {configs} configs moved, largest deviation "
              f"{worst:.1e} ({worst / EPS:.1f} eps)")
    print("within 16 eps" if ok else "past 16 eps")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
