#!/bin/sh
# Prints `cloudtx trace` in every format for every scheme x level cell:
# the wire views test/golden_wire_views.txt pins.  Usage: wire_views.sh CLI
set -e
for scheme in deferred punctual incremental continuous; do
  for level in view global; do
    for format in text mermaid csv jsonl; do
      echo "=== trace --scheme $scheme --level $level --format $format"
      "$1" trace --scheme "$scheme" --level "$level" --format "$format"
    done
  done
done
