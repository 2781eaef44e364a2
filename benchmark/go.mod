// The benchmark is a module of its own so that the repository's build
// file stays untouched; the import path keeps the cad3/ prefix, which is
// what lets it import cad3/internal/... through the replace below.
module cad3/benchmark

go 1.22

require cad3 v0.0.0

replace cad3 => ../
