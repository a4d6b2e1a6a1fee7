#!/usr/bin/env bash
# Print the wire counts of the repository benchmark, one line per
# workload and count: sim.events, net.bytes_sent, net.datagrams_sent and
# rpc.calls of a traced run on seed 1. The simulation is deterministic
# and these counts depend neither on the compiler nor on the host, so
# CI compares the output with bench/PERFBENCH_COUNTS by string equality.
# Fails if a run reports itself incorrect. Run from the repository root.
set -euo pipefail
for workload in gather-copy sfs-mix boot-storm; do
  out=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
  if ! printf '%s\n' "$out" | grep -q '"correct": true'; then
    echo "perfbench: $workload run is not correct" >&2
    exit 1
  fi
  for count in sim.events net.bytes_sent net.datagrams_sent rpc.calls; do
    value=$(printf '%s\n' "$out" | grep -o "\"$count\": {\"value\": [0-9]*" | grep -o '[0-9]*$')
    echo "$workload $count $value"
  done
done
