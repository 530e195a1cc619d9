#!/usr/bin/env bash
# Run the CLI pipeline on small seeded corpora and print the sha256 of every
# deterministic artifact, so two commits can be compared byte for byte:
#
#   scripts/artifact_hashes.sh SRC_DIR OUT_DIR > hashes.txt
#
# SRC_DIR is the checkout's src/ directory; OUT_DIR is wiped and refilled.
# Only predict's id,node_type,prediction columns are hashed, carriage returns
# dropped, so a checkout whose predict still writes a wall-clock latency_ms
# column compares too. Each evaluate's console table is kept as table-*.txt:
# without --timings it holds no wall-clock figure either. Each synth manifest
# sidecar (corpus.json.manifest.txt) is hashed too: describe() is deterministic.
set -euo pipefail
SRC=$1; OUT=$2
export PYTHONPATH=$SRC OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
rm -rf "$OUT"; mkdir -p "$OUT"
op() { python -m opembed.cli "$@" > /dev/null; }
table() { local f=$1; shift; python -m opembed.cli evaluate "$@" > "$f"; }
# preset:seed:queries:evaluate task (a 40-query tpcds-like fifth can hold a
# single card class, so that corpus is graded on admission)
for spec in planted-card:0:150:card planted-card:1:150:card tpcds-like:0:40:admission; do
  IFS=: read -r preset seed q task <<< "$spec"
  d=$OUT/$preset-$seed; mkdir -p "$d"
  op synth --preset "$preset" --seed "$seed" --queries "$q" --out "$d/corpus.json"
  op train-embedding --corpus "$d/corpus.json" --epochs 3 --seed "$seed" \
     --encoder-out "$d/encoder.opeb" --schema-out "$d/schema.opeb"
  op train-embedding --corpus "$d/corpus.json" --epochs 3 --seed "$seed" --masked-loss \
     --encoder-out "$d/encoder_masked.opeb"
  op train-embedding --corpus "$d/corpus.json" --epochs 3 --seed "$seed" --pre-activation \
     --encoder-out "$d/encoder_pre.opeb"
  # a non-default trunk: other widths, an odd batch size and a partial last batch
  op train-embedding --corpus "$d/corpus.json" --epochs 3 --seed "$seed" --hidden 48,24 \
     --embedding-dim 8 --batch 7 --encoder-out "$d/encoder_small.opeb"
  op embed --corpus "$d/corpus.json" --encoder "$d/encoder.opeb" --out "$d/embeddings.csv"
  op embed --corpus "$d/corpus.json" --encoder "$d/encoder_small.opeb" --out "$d/embeddings_small.csv"
  op embed --corpus "$d/corpus.json" --encoder "$d/encoder_pre.opeb" --out "$d/embeddings_pre.csv"
  op project2d --features "$d/embeddings.csv" --out "$d/project2d.csv"
  op reduce --corpus "$d/corpus.json" --schema "$d/schema.opeb" --method pca --dim 8 \
     --model-out "$d/pca.opeb" --out "$d/pca.csv"
  op reduce --corpus "$d/corpus.json" --schema "$d/schema.opeb" --method fa --dim 8 \
     --model-out "$d/fa.opeb" --out "$d/fa.csv"
  op reduce --corpus "$d/corpus.json" --schema "$d/schema.opeb" --method sparse --out "$d/sparse.csv"
  op train-task --corpus "$d/corpus.json" --features "$d/embeddings.csv" --task admission \
     --model logreg --provenance "$d/encoder.opeb" --out "$d/clf_admission.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/pca.csv" --task admission \
     --model knn --percentile 80 --provenance "$d/pca.opeb" --out "$d/clf_pca.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/fa.csv" --task admission \
     --model svm --percentile 80 --seed "$seed" --provenance "$d/fa.opeb" --out "$d/clf_fa.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/sparse.csv" --task admission \
     --model logreg --seed "$seed" --provenance "$d/schema.opeb" --out "$d/clf_sparse.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/embeddings.csv" --task user \
     --model svm --seed "$seed" --out "$d/clf_user.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/embeddings.csv" --task card \
     --model rf --seed "$seed" --out "$d/clf_card.opeb"
  # a forest on the wide sparse columns, so each split samples more features
  op train-task --corpus "$d/corpus.json" --features "$d/sparse.csv" --task "$task" \
     --model rf --seed "$seed" --out "$d/clf_rf_sparse.opeb"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_admission.opeb" \
     --encoder "$d/encoder.opeb" --out "$d/pred_enc.csv"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_pca.opeb" \
     --reducer "$d/pca.opeb" --schema "$d/schema.opeb" --out "$d/pred_pca.csv"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_fa.opeb" \
     --reducer "$d/fa.opeb" --schema "$d/schema.opeb" --out "$d/pred_fa.csv"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_sparse.opeb" \
     --schema "$d/schema.opeb" --out "$d/pred_sparse.csv"
  for f in pred_enc pred_pca pred_fa pred_sparse; do
    cut -d, -f1-3 "$d/$f.csv" | tr -d "\r" > "$d/$f.cols.csv"; rm "$d/$f.csv"
  done
  for strategy in random temporal; do
    for full in "" --embedding-from-full-log; do
      tag=$strategy${full:+-full}
      table "$d/table-$tag.txt" --corpus "$d/corpus.json" --task "$task" \
         --featurizations sparse,neural-16,pca-8 --models logreg,knn,rf,svm,dummy --epochs 2 \
         --strategy "$strategy" --seed "$seed" $full \
         --out "$d/report-$tag.csv" --medians-out "$d/medians-$tag.csv"
    done
  done
  table "$d/table-by_group.txt" --corpus "$d/corpus.json" --task "$task" \
     --featurizations sparse,neural-16,pca-8 --models logreg,knn,rf,svm,dummy --epochs 2 \
     --strategy by_group --seed "$seed" \
     --out "$d/report-by_group.csv" --medians-out "$d/medians-by_group.csv"
  for full in "" --embedding-from-full-log; do
    tag=user${full:+-full}
    table "$d/table-$tag.txt" --corpus "$d/corpus.json" --task user \
       --featurizations sparse,neural-16 --models logreg,rf,dummy --epochs 2 --seed "$seed" \
       $full --out "$d/report-$tag.csv" --medians-out "$d/medians-$tag.csv"
  done
  # no --models and no --strategy: the grid the CLI's defaults name
  table "$d/table-defaults.txt" --corpus "$d/corpus.json" --task "$task" \
     --featurizations sparse --epochs 2 --seed "$seed" \
     --out "$d/report-defaults.csv" --medians-out "$d/medians-defaults.csv"
done
# encode one corpus with another corpus's schema, so unseen categorical values
# and stats fit elsewhere are exercised: planted-card-1's plans, read through
# planted-card-0's schema and its sparse classifier
d=$OUT/cross; mkdir -p "$d"
op reduce --corpus "$OUT/planted-card-1/corpus.json" --schema "$OUT/planted-card-0/schema.opeb" \
   --method sparse --out "$d/sparse.csv"
op predict --plans "$OUT/planted-card-1/corpus.json" \
   --classifier "$OUT/planted-card-0/clf_sparse.opeb" \
   --schema "$OUT/planted-card-0/schema.opeb" --out "$d/pred_sparse.csv"
cut -d, -f1-3 "$d/pred_sparse.csv" | tr -d "\r" > "$d/pred_sparse.cols.csv"; rm "$d/pred_sparse.csv"
# a wide log of several 256-row read blocks: embed and predict featurize it a
# block at a time through tpcds-like-0's bundles, which must not change a byte
d=$OUT/wide; mkdir -p "$d"; t=$OUT/tpcds-like-0
op synth --preset tpcds-like --seed 3 --queries 150 --out "$d/corpus.json"
op embed --corpus "$d/corpus.json" --encoder "$t/encoder.opeb" --out "$d/embeddings.csv"
op embed --corpus "$d/corpus.json" --encoder "$t/encoder_small.opeb" --out "$d/embeddings_small.csv"
op embed --corpus "$d/corpus.json" --encoder "$t/encoder_pre.opeb" --out "$d/embeddings_pre.csv"
# a 4-wide embedding is under featurizer.MIN_BLOCKED_WIDTH, so it is one block
op train-embedding --corpus "$t/corpus.json" --epochs 3 --hidden 64,32 --embedding-dim 4 \
   --encoder-out "$d/encoder_narrow.opeb"
op embed --corpus "$d/corpus.json" --encoder "$d/encoder_narrow.opeb" --out "$d/embeddings_narrow.csv"
op predict --plans "$d/corpus.json" --classifier "$t/clf_admission.opeb" \
   --encoder "$t/encoder.opeb" --out "$d/pred_enc.csv"
op predict --plans "$d/corpus.json" --classifier "$t/clf_pca.opeb" \
   --reducer "$t/pca.opeb" --schema "$t/schema.opeb" --out "$d/pred_pca.csv"
op predict --plans "$d/corpus.json" --classifier "$t/clf_fa.opeb" \
   --reducer "$t/fa.opeb" --schema "$t/schema.opeb" --out "$d/pred_fa.csv"
op predict --plans "$d/corpus.json" --classifier "$t/clf_sparse.opeb" \
   --schema "$t/schema.opeb" --out "$d/pred_sparse.csv"
# clf_admission flags no query of this log; a kNN on the same embeddings flags
# some, so the verdicts below hold both kinds
op train-task --corpus "$t/corpus.json" --features "$t/embeddings.csv" --task admission \
   --model knn --percentile 80 --provenance "$t/encoder.opeb" --out "$d/clf_knn.opeb"
op predict --plans "$d/corpus.json" --classifier "$d/clf_knn.opeb" \
   --encoder "$t/encoder.opeb" --out "$d/pred_knn.csv"
for f in pred_enc pred_pca pred_fa pred_sparse pred_knn; do
  cut -d, -f1-3 "$d/$f.csv" | tr -d "\r" > "$d/$f.cols.csv"; rm "$d/$f.csv"
done
# the library's per-record tasks.flag_query verdicts for the same log, through
# the encoder and pca bundles: each record is featurized on its own, and the
# files match predict's pred_knn and pred_pca verdicts CSVs byte for byte
python - "$d" "$t" <<'EOF_PY'
import csv
import sys
from pathlib import Path
from opembed import store
from opembed.plans import load_corpus
from opembed.tasks import flag_query
d, t = map(Path, sys.argv[1:])
records = load_corpus(d / "corpus.json").records
for name, clf, paths in (("knn", d / "clf_knn.opeb", {"encoder": t / "encoder.opeb"}),
                         ("pca", t / "clf_pca.opeb", {"reducer": t / "pca.opeb",
                                                      "schema": t / "schema.opeb"})):
    model, _ = store.load_classifier_bundle(clf)
    feat = store.load_featurizer(**paths)
    with open(d / f"flag_{name}.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("query_id", "verdict")] + [
            (r.query_id, flag_query(model, feat.schema, r, transform=feat.model))
            for r in records])
EOF_PY
# a grid whose folds' train sides hold 49 to 77 rows, 64 and 65 among them:
# with 64-row batches some take one SGD batch an epoch and some two, so the
# folds' linear fits, trained together, pad short batches and end their
# epochs at different steps
d=$OUT/batch-counts; mkdir -p "$d"
op synth --preset planted-card --seed 3 --queries 40 --out "$d/corpus.json"
table "$d/table.txt" --corpus "$d/corpus.json" --task card --featurizations sparse,pca-8 \
   --models logreg,knn,rf,svm,dummy --embedding-from-full-log --seed 3 \
   --out "$d/report.csv" --medians-out "$d/medians.csv"
# the writer's bytes for the presets the runs above do not synthesize
for preset in default context-probe; do
  d=$OUT/synth-$preset; mkdir -p "$d"
  op synth --preset "$preset" --seed 2 --out "$d/corpus.json"
done
# masked loss with batches of 3: many batches hold no operator with a first or
# second child, so a head gets zero gradients; the pre-activation cut-off too
d=$OUT/masked-small; mkdir -p "$d"
op synth --preset planted-card --seed 0 --queries 60 --out "$d/corpus.json"
op train-embedding --corpus "$d/corpus.json" --masked-loss --pre-activation --batch 3 \
   --hidden 16 --embedding-dim 4 --epochs 2 --encoder-out "$d/encoder.opeb"
(cd "$OUT" && find . -type f | sort | xargs sha256sum)
