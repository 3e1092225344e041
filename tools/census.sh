#!/bin/sh
# Coverage census: which functions under internal/ does no shipped
# program ever enter? It builds every driver with coverage over the
# whole module, runs each on a small input, and writes the functions
# under internal/ that stayed at 0% to tools/census.txt, one a line:
# file, function, and the reason the function stays. Reasons carry
# over from the previous list by file and function name; a new entry
# reads TODO until someone deletes the function, reaches it from a
# driver or gives it a reason. Run it from anywhere in the module
# (about three minutes on two cores; it binds loopback UDP ports
# 17101 and 17102):
#
#	sh tools/census.sh
set -eu
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"
export GOCOVERDIR="$work/cov"

for d in bench cmd/p2 cmd/p2sim cmd/olgc examples/*; do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$d")" "./$d"
done
bin=$work/bin
run() {
	echo "census: $*" >&2
	(cd "$work" && "$@") >/dev/null
}

for w in sim_lookup sim_kv_sharded udp_kv_get udp_kv_put; do
	run "$bin/bench" -workload "$w" -seconds 2 -trace 1
done

for e in rules fig3 fig4 mem ablation workload all; do
	run "$bin/p2sim" -exp "$e" -scale quick
done
run "$bin/p2sim" -explain

for s in chord narada gossip linkstate pingpong multicast; do
	run "$bin/olgc" "$s"
	run "$bin/olgc" -ast "$s"
done

# Two UDP nodes form a ring; the second records its traffic through
# the fault layer, and the simulator replays the recording.
a=127.0.0.1:17101
b=127.0.0.1:17102
"$bin/p2" -spec chord -addr $a -seed 3 -duration 8s \
	-fact "landmark=$a,-" -fact "join=$a,boot1" >/dev/null &
node=$!
run "$bin/p2" -spec chord -addr $b -seed 7 -duration 7s \
	-fact "landmark=$b,$a" -fact "join=$b,boot2" -watch bestSucc \
	-record "$work/run.p2trace" -top -top-interval 2s \
	-fault-drop 0.05 -fault-dup 0.05 -fault-reorder 0.05
wait $node
run "$bin/p2sim" -replay "$work/run.p2trace" -seed 7

for ex in chord gossip health kv linkstate monitor multicast narada quickstart; do
	run "$bin/$ex"
done

go tool covdata func -i="$work/cov" |
	awk '$NF == "0.0%" && $1 ~ /^p2\/internal\// {
		sub(/^p2\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	sort -u >"$work/zero"
list=tools/census.txt
touch "$list"
{
	echo "# Functions under internal/ that no driver enters: file, function, reason."
	echo "# Written by tools/census.sh; reasons carry over by file and function."
	awk 'FILENAME == ARGV[1] { if ($0 !~ /^#/ && NF > 2) { k = $1 " " $2; $1 = $2 = ""; sub(/^ +/, ""); why[k] = $0 }; next }
		{ k = $1 " " $2; print k, (k in why ? why[k] : "TODO") }' "$list" "$work/zero"
} >"$work/list"
mv "$work/list" "$list"
echo "census: $(grep -vc '^#' "$list") functions at 0%, $(grep -c ' TODO$' "$list") without a reason, in $list" >&2
