package serving

// AppendImageOracle exposes the append-built image encoder kept as the
// streamed writer's oracle.
var AppendImageOracle = (*View).appendImageOracle
