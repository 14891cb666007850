#!/usr/bin/env bash
# Static-analysis gate: the stock toolchain's vet plus the repo's own
# invariant checker (cmd/reissue-vet — determinism, salt discipline,
# context flow, snapshot accounting, dead exports). CI runs the
# same two commands with the same flags; run this locally before
# pushing.
#
# A reissue-vet finding is either a real invariant break (fix it) or a
# deliberate exception (annotate the line with
# `//lint:allow <analyzer> <reason>` — the reason is mandatory).
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
go run ./cmd/reissue-vet ./...
echo "lint: clean"
