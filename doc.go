// Package latlab reproduces "Using Latency to Evaluate Interactive
// System Performance" (Endo, Wang, Chen, Seltzer; OSDI '96) as a Go
// library: the paper's latency-measurement methodology implemented over
// a deterministic discrete-event simulation of its experimental
// platform.
//
// The root package embeds the ext-faults-* scenario documents
// (ExtFaultsScenarios, the family's only declaration) and holds the
// benchmark harness (bench_test.go, one benchmark per paper
// table/figure plus ablations) and smoke tests for the runnable
// examples. The library lives under internal/:
//
//   - internal/core — the methodology: idle-loop instrument, message-API
//     monitor, think/wait FSM, event extraction, latency reports,
//     utilization profiles, hardware-counter attribution.
//   - internal/kernel, internal/cpu, internal/mem, internal/disk,
//     internal/fscache — the simulated machine and operating system.
//   - internal/persona, internal/winsys, internal/system — the three
//     Windows personalities (NT 3.51, NT 4.0, Windows 95) and their
//     window-system architectures.
//   - internal/apps, internal/ole, internal/input — the benchmark
//     applications and input drivers.
//   - internal/experiments — one registered experiment per paper
//     artifact, consumed by cmd/latbench, tests, and benchmarks.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory
// and per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
package latlab
