#!/bin/sh
# lint.sh — run the aggvet multichecker over the whole module and print
# a per-analyzer diagnostic summary.
#
# The ./... pattern covers every package in the module, including the
# top-level sqlagg/ and live/ trees; the script fails fast if either
# ever drops out of the pattern (a moved directory or a new go.mod would
# silently shrink lint coverage otherwise). Exit status is non-zero when
# any analyzer reports an unsuppressed diagnostic, with the summary
# listing the count per analyzer.
set -u

GO="${GO:-go}"
AGGVET="${AGGVET:-bin/aggvet}"
ANALYZERS="simclock seededrand netdeadline donesend maporder floatdet resleak pooluse loopown framecase lockcheck lockguard noalloc"

if ! "$GO" build -o "$AGGVET" ./cmd/aggvet; then
    echo "lint: building aggvet failed" >&2
    exit 1
fi

# Coverage guard: the vet run below must include the SQL front-end and
# the live-cluster layer.
pkgs=$("$GO" list ./...) || exit 1
for must in parallelagg/sqlagg parallelagg/live; do
    case "$pkgs" in
    *"$must"*) ;;
    *)
        echo "lint: package $must is not covered by ./... — lint coverage shrank" >&2
        exit 1
        ;;
    esac
done

out=$("$GO" vet -vettool="$(pwd)/$AGGVET" ./... 2>&1)
vet_status=$?

if [ -n "$out" ]; then
    printf '%s\n' "$out"
fi

total=0
summary=""
for a in $ANALYZERS; do
    count=$(printf '%s\n' "$out" | grep -c ": $a: ")
    total=$((total + count))
    summary="$summary $a=$count"
done

if [ "$vet_status" -ne 0 ] && [ "$total" -eq 0 ]; then
    # vet failed without printing diagnostics: driver error, not findings.
    echo "lint: go vet failed (exit $vet_status) with no diagnostics — driver error above" >&2
    exit "$vet_status"
fi

echo "lint: diagnostics per analyzer:$summary total=$total"
if [ "$total" -ne 0 ]; then
    exit 1
fi

# Exemption inventory: list every //aggvet:allow in the tree and fail
# if any is missing its "-- rationale" clause. Comment parsing lives in
# the tool itself (aggvet -allows) so doc-comment *mentions* of the
# directive don't false-positive the way a grep would.
if ! "$AGGVET" -allows .; then
    echo "lint: //aggvet:allow inventory failed — every allow needs a \"-- rationale\"" >&2
    exit 1
fi

# Static zero-alloc gate: the exact functions whose allocation behavior
# the runtime AllocsPin tests pin must carry //aggvet:noalloc, so that
# dropping an annotation (silently shrinking static coverage) fails
# lint, not just review. The noalloc analyzer above already verified
# the annotated bodies; this step verifies the annotations exist.
if ! "$AGGVET" -require-noalloc \
    internal/tuple:Key.Hash,Key.Dest \
    internal/aggtable:Table.Len,Table.Slots,Table.Home,Table.UpdateRaw,Table.MergePartial,Table.UpdateRows,Table.UpdateBatch,Table.MergeBatch,Table.FoldRows,Table.FoldPartial,Shared.UpdateRaw,Shared.MergePartial,Shared.UpdateBatch,Shared.UpdateBatchContended,Shared.MergeBatch \
    internal/kernel:Scan.fold,Scan.route,Scan.dest,Merge.Raw,Merge.Partials \
    internal/dist:rawFrameInto,partialFrameInto; then
    echo "lint: -require-noalloc gate failed — a pinned hot-path function lost its //aggvet:noalloc annotation" >&2
    exit 1
fi
echo "lint: clean"
