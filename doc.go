// Package elga is a from-scratch Go reproduction of ElGA, the elastic and
// scalable dynamic graph analysis system of Gabert, Sancak, Özkaya, Pınar
// and Çatalyürek (SC '21).
//
// The system lives under internal/: the consistent-hash + count-min-sketch
// edge partitioning core, the shared-nothing Agents/Directories/Streamers/
// ClientProxies, the vertex-centric algorithm layer, the baselines the
// paper compares against, and an experiment harness that regenerates every
// table and figure of the paper's evaluation. Start with
// internal/cluster (the in-process deployment harness), the examples/
// directory, and the elga / elga-bench / elga-gen commands.
//
// The benchmarks in bench_test.go exercise the core operation behind each
// paper figure; `go run ./cmd/elga-bench all` reproduces the full tables.
// Regression tracking is the nested benchmark/ module (BENCHMARK.json).
package elga
