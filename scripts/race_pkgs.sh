#!/bin/sh
# Prints the packages the race detector runs over, one per line: every
# package of the module (go list ./...) except the ones excluded below.
# A new package is raced by default; leaving one out means adding it here
# with its reason. make race, make race-scalar and both CI race legs use
# this list:
#
#   pkgs=$(sh scripts/race_pkgs.sh) && go test -race $pkgs
set -eu
cd "$(dirname "$0")/.."

# Excluded: the paper's single-threaded simulators, analytic models and
# parsers. They start no goroutines and share no mutable state, so the
# race build only slows their tests down.
excluded='phihpl/internal/hplio
phihpl/internal/kernels
phihpl/internal/machine
phihpl/internal/pcie
phihpl/internal/perfmodel
phihpl/internal/power
phihpl/internal/sim
phihpl/internal/simhybrid
phihpl/internal/simlu'

pkgs=$(${GO:-go} list ./...)
for p in $excluded; do
	printf '%s\n' "$pkgs" | grep -qxF "$p" || {
		echo "race_pkgs.sh: excluded package $p is not in the module" >&2
		exit 1
	}
done
printf '%s\n' "$pkgs" | grep -vxF "$excluded"
