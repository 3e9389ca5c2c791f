#!/bin/sh
# Full pipeline through the command line: generate, train, infer, eval.
# Everything is seeded, so rerunning reproduces the same bytes.
set -e

work=$(mktemp -d)
echo "working in $work"

python3 -m crispedge.cli gen --count 12 --height 32 --width 32 --annotators 2 \
    --jitter 0.5 --seed 3 --out-dir "$work/data"

python3 -m crispedge.cli train --manifest "$work/data/manifest.tsv" --epochs 4 \
    --batch-size 6 --loss-mode sce+sd --seed 0 --out-dir "$work/run"

python3 -m crispedge.cli infer --params "$work/run/params.crb" \
    --image "$work/data/syn-3-0000.pgm" \
    --scales 0.5,1,2 --out "$work/pred.crb"

# score the prediction against the sample's two annotators
printf 'syn-3-0000\t%s\t%s,%s\ttest\n' \
    "$work/pred.crb" \
    "$work/data/syn-3-0000-ann0.pgm" \
    "$work/data/syn-3-0000-ann1.pgm" > "$work/eval.tsv"

python3 -m crispedge.cli eval --manifest "$work/eval.tsv" --out-dir "$work/scores"

echo
echo "artifacts:"
ls "$work/run" "$work/scores"
