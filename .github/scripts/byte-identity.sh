#!/usr/bin/env bash
# Compare the stdout of the table, optimizer, scan, state, Wigner and
# fidelity commands between two dqsim source trees, byte for byte:
#
#     bash .github/scripts/byte-identity.sh BASE_TREE HEAD_TREE
#
# The flat-valley table1 rows (m = 0 and n = 1) move with any last-bit
# rounding change, so a kernel change must leave these outputs identical
# until the exact optimizer (ROADMAP item 2) replaces the simplex path.
# The CSV and JSON writers of the grid and report commands are covered too.
# The five cases from fidelity-map-never pin the realized p, F and moments of
# the one pass over the lost photons: a fidelity map whose eta_d = 0 rows never
# fire (and print 0), reports at n = 12 and at n = 1 (which has no <a^2>
# terms), and a map at n = 30.  The three after them have factorials far past
# the float range: n = 150, m = 150 and n = 200.  The last ten compare the
# help text of dqsim and of each of its nine commands.
# For an output that differs it also prints how many fields differ and the
# largest relative and absolute differences between two numeric fields.
# Exits 1 if any output differs.
set -euo pipefail
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
# fields split on whitespace and on the CSV and JSON separators
field_diff='
import re, sys
a, b = (re.split(r"[\s,:\[\]{}]+", open(p).read()) for p in sys.argv[1:])
diff = [(x, y) for x, y in zip(a, b) if x != y]
rel = dev = 0.0
for x, y in diff:
    try:
        x, y = float(x), float(y)
    except ValueError:  # a word, such as true against false
        rel = dev = float("nan")
        continue
    dev = max(dev, abs(x - y))
    if x != y:  # fields such as 0 and -0 differ in text only
        rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
if len(a) != len(b):
    print(f"         {len(a)} fields against {len(b)}")
else:
    print(f"         {len(diff)} of {len(a)} fields differ, largest relative difference {rel:.2g},"
          f" largest absolute difference {dev:.2g}")
'
while read -r name args; do
  for side in base head; do
    tree=${!side}
    # shellcheck disable=SC2086  # args splits into the command's words
    PYTHONPATH="$tree/src" python -m dqsim.cli $args >"$out/$side.$name" 2>/dev/null
  done
  if cmp -s "$out/base.$name" "$out/head.$name"; then
    echo "same     $name"
  else
    echo "DIFFERS  $name"
    python -c "$field_diff" "$out/base.$name" "$out/head.$name"
    status=1
  fi
done <<'COMMANDS'
table1 table1 --format json
table2 table2 --format json
table3 table3 --format json
optimize optimize --n 4 --m 3 --format json
scan scan --n 2 --m 1
hsd-scan hsd-scan --n 2 --m 1
scan-json scan --n 1 --m 0 --format json
wigner wigner --n 2 --m 1 --alpha-sq 5.45 --R 0.8175
state-json state --n 2 --m 1 --alpha-sq 5.45 --R 0.8175 --eta-d 0.9 --format json
fidelity-map fidelity-map --n 2 --m 1 --alpha-sq 5.45 --R 0.8175
fidelity-map-n6 fidelity-map --n 6 --m 3 --alpha-sq 9 --R 0.4
table3-eta table3 --eta-d 0.7 --eta-s 0.5 --format json
state-n5 state --n 5 --m 2 --alpha-sq 7.5 --R 0.55 --eta-d 0.6 --eta-s 0.8
fidelity-map-never fidelity-map --n 1 --m 3 --alpha-sq 0.5 --R 0.5 --grid 0:1:3,0:1:3
state-json-eta state --n 3 --m 2 --alpha-sq 4 --R 0.6 --eta-d 0.3 --eta-s 0.4 --format json
state-n12 state --n 12 --m 4 --alpha-sq 6 --R 0.7 --eta-d 0.8 --eta-s 0.9 --format json
state-n1 state --n 1 --m 3 --alpha-sq 2 --R 0.5 --eta-d 0.7 --eta-s 0.5
fidelity-map-n30 fidelity-map --n 30 --m 2 --alpha-sq 8 --R 0.5 --grid 0:1:101,0:1:3
state-n150 state --n 150 --m 40 --alpha-sq 400 --R 0.97 --format json
state-m150 state --n 2 --m 150 --alpha-sq 400 --R 0.5
fidelity-map-n200 fidelity-map --n 200 --m 1 --alpha-sq 2 --R 0.5 --grid 0.3:1:3,0.5:1:2
help --help
help-state state --help
help-scan scan --help
help-optimize optimize --help
help-table1 table1 --help
help-table2 table2 --help
help-table3 table3 --help
help-wigner wigner --help
help-hsd-scan hsd-scan --help
help-fidelity-map fidelity-map --help
COMMANDS
exit "$status"
