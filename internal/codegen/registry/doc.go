// Package registry holds the pre-generated ahead-of-time engines behind
// `-exec=gen`: one Go file per group of covered programs, each
// registering every member's engine factory under its program's code
// fingerprint via interp.RegisterGen at init time. The designs of one
// app form a group (gen_mp3.go: SW, SW+1, SW+2, SW+4; gen_jpeg.go: SW,
// SW+DCT) whose engine types embed one base type holding the globals and
// every function the members emit byte for byte; each codegen self-test
// program is a group of one. Importing this package (internal/apps does,
// blank) is all it takes for interp.NewEngine to find the generated tier.
//
// Every gen_*.go file is emitted by `esegen -registry` and is
// byte-deterministic for a given group; CI regenerates the directory and
// fails on any diff, and a test fails when two generated functions have
// the same body. This file is the only hand-written one.
//
// The registry keys on Program.CodeFingerprint, which excludes global
// sizes and initializers: workload knobs (frame counts, generated
// bitstream data) land only in global initializers, so one generated
// engine serves every workload configuration of the same source
// template — the generated code re-reads global shape from the live
// Program on construction and Reset.
package registry
