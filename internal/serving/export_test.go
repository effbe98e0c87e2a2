package serving

// RequireViewMatchesStore exposes the store-equivalence helper to the
// external test package, which can import the pipeline (core imports
// serving, so the in-package tests cannot).
var RequireViewMatchesStore = requireViewMatchesStore

// AppendImageOracle exposes the append-built image encoder kept as the
// streamed writer's oracle.
var AppendImageOracle = (*View).appendImageOracle
