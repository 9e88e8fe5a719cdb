#!/bin/sh
# v6t_serve --spill-dir over the spill root of a spilled tests/data/tiny.conf
# run (2 shards, 64 KiB budget): what it loads, and what it refuses.
#
#   sh tests/serve_spill.sh CASE V6T_RUN V6T_SERVE CONF WORKDIR
#
# CASE is one of
#   loads_beside_tmp    a seg-*.v6tseg.tmp in a store is left as it is, and
#                       T1 loads as many packets as the in-memory dump holds
#   rejects_missing_telescope   --telescope T9: exit 1, naming T9
#   rejects_footer_flip  one flipped footer byte: exit 1, naming the segment
#   rejects_record_flip  one flipped record byte: exit 1, naming the segment
#   rejects_bare_store   a store directory given as the root: exit 1
# WORKDIR is cleared first. A server that starts serving is stopped with
# SIGINT as soon as it prints "serving on", so no case leaves a process
# running or waits on a timer.
set -u
case_name=$1 run=$2 serve=$3 conf=$4 work=$5
spill=$work/spill
seg=$spill/shard-0/T1/seg-000003.v6tseg

fail() {
  echo "FAIL ($case_name): $*"
  exit 1
}

# flip FILE OFFSET: xor one byte of FILE with 0x01, in place.
flip() {
  byte=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')
  [ -n "$byte" ] || fail "$1 has no byte at offset $2"
  printf "\\$(printf %o $((byte ^ 1)))" |
    dd of="$1" bs=1 seek="$2" conv=notrunc 2> /dev/null
}

# load ARGS...: runs v6t_serve on an ephemeral port with ARGS, stops it
# with SIGINT once it serves, and leaves its output in $work/serve.log and
# its exit status in $rc.
load() {
  rm -f "$work/pipe" && mkfifo "$work/pipe" || fail "mkfifo"
  "$serve" --port 0 "$@" > "$work/pipe" 2>&1 &
  pid=$!
  while IFS= read -r line; do
    echo "$line"
    case $line in "serving on"*) kill -INT "$pid" ;; esac
  done < "$work/pipe" > "$work/serve.log"
  wait "$pid"
  rc=$?
  cat "$work/serve.log"
}

# refused PATTERN ARGS...: the load exits 1 with PATTERN in its output.
refused() {
  pattern=$1
  shift
  load "$@"
  [ "$rc" -eq 1 ] || fail "v6t_serve exited $rc, not 1"
  grep -q -- "$pattern" "$work/serve.log" || fail "no '$pattern' in the output"
}

rm -rf "$work" && mkdir -p "$work" || fail "cannot clear $work"
"$run" "$conf" --threads 2 --spill-bytes 65536 --spill-dir "$spill" \
  > "$work/run.log" || fail "the spilled run failed"
[ -f "$seg" ] || fail "the spilled run left no $seg"

case $case_name in
loads_beside_tmp)
  tmp=$spill/shard-0/T1/seg-000099.v6tseg.tmp
  head -c 100 "$seg" > "$tmp"
  "$run" "$conf" --dump-captures --out "$work/mem" > "$work/mem.log" ||
    fail "the in-memory run failed"
  want=$(sed -n 's/^wrote .*T1\.v6tcap (\([0-9]*\) records)$/\1/p' \
    "$work/mem.log")
  [ "$want" = 19865 ] || fail "the in-memory T1 dump holds '$want' records"
  load --spill-dir "$spill" "$conf"
  [ "$rc" -eq 0 ] || fail "v6t_serve exited $rc, not 0"
  grep -q "^loaded $want packets from " "$work/serve.log" ||
    fail "T1 did not load $want packets"
  [ -f "$tmp" ] || fail "$tmp was moved"
  if ls "$spill"/shard-*/* | grep -q quarantined; then
    fail "a file was quarantined"
  fi
  ;;
rejects_missing_telescope)
  refused "no telescope T9 in " --spill-dir "$spill" --telescope T9
  ;;
rejects_footer_flip)
  size=$(wc -c < "$seg")
  flip "$seg" $((size - 60))
  refused "invalid segment .*shard-0/T1/seg-000003.v6tseg" --spill-dir "$spill"
  [ -f "$seg" ] || fail "$seg was moved"
  ;;
rejects_record_flip)
  flip "$seg" 100
  refused "segment.*shard-0/T1/seg-000003.v6tseg" --spill-dir "$spill"
  ;;
rejects_bare_store)
  refused "is not a spill root" --spill-dir "$spill/shard-0/T1"
  ;;
*)
  fail "unknown case"
  ;;
esac
echo "ok ($case_name)"
