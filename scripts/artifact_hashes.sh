#!/usr/bin/env bash
# Run the CLI pipeline on small seeded corpora and print the sha256 of every
# deterministic artifact, so two commits can be compared byte for byte:
#
#   scripts/artifact_hashes.sh SRC_DIR OUT_DIR > hashes.txt
#
# SRC_DIR is the checkout's src/ directory; OUT_DIR is wiped and refilled.
# Only predict's id,node_type,prediction columns are hashed, carriage returns
# dropped, so a checkout whose predict still writes a wall-clock latency_ms
# column compares too.
set -euo pipefail
SRC=$1; OUT=$2
export PYTHONPATH=$SRC OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
rm -rf "$OUT"; mkdir -p "$OUT"
op() { python -m opembed.cli "$@" > /dev/null; }
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
  op train-task --corpus "$d/corpus.json" --features "$d/embeddings.csv" --task user \
     --model svm --seed "$seed" --out "$d/clf_user.opeb"
  op train-task --corpus "$d/corpus.json" --features "$d/embeddings.csv" --task card \
     --model rf --seed "$seed" --out "$d/clf_card.opeb"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_admission.opeb" \
     --encoder "$d/encoder.opeb" --out "$d/pred_enc.csv"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_pca.opeb" \
     --reducer "$d/pca.opeb" --schema "$d/schema.opeb" --out "$d/pred_pca.csv"
  op predict --plans "$d/corpus.json" --classifier "$d/clf_fa.opeb" \
     --reducer "$d/fa.opeb" --schema "$d/schema.opeb" --out "$d/pred_fa.csv"
  for f in pred_enc pred_pca pred_fa; do
    cut -d, -f1-3 "$d/$f.csv" | tr -d "\r" > "$d/$f.cols.csv"; rm "$d/$f.csv"
  done
  for strategy in random temporal; do
    for full in "" --embedding-from-full-log; do
      tag=$strategy${full:+-full}
      op evaluate --corpus "$d/corpus.json" --task "$task" --featurizations sparse,neural-16,pca-8 \
         --models logreg,knn,rf,svm,dummy --epochs 2 --strategy "$strategy" --seed "$seed" $full \
         --out "$d/report-$tag.csv" --medians-out "$d/medians-$tag.csv"
    done
  done
  op evaluate --corpus "$d/corpus.json" --task user --featurizations sparse,neural-16 \
     --models logreg,rf,dummy --epochs 2 --seed "$seed" --out "$d/report-user.csv" \
     --medians-out "$d/medians-user.csv"
done
(cd "$OUT" && find . -type f ! -name '*.manifest.txt' | sort | xargs sha256sum)
