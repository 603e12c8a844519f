package analysis

// Boxing flags interface boxing reachable from //easyio:hotpath roots
// even when amortized: a concrete, non-pointer-shaped value converted,
// assigned, passed, returned, or sent into an interface-typed location
// allocates an eface/iface box per operation, and any fmt-family call
// boxes every argument besides formatting. These are the "hidden costs
// of the async stack" a steady-state profile amortizes into invisibility
// — boxing on the event or request path shows up only as GC pressure at
// the 10^6-request scale, so it is a build failure here, not a
// profile-day surprise.
//
// Boxing shares noalloc's summaries, cold-context discharge, and hot
// root reachability (see noalloc.go); it differs only in which site
// class it reports. It is a module-wide analyzer precomputed by BuildModule.
var Boxing = &Analyzer{
	Name: "boxing",
	Doc:  "forbid interface boxing and fmt calls reachable from hot paths",
	Run:  runModule,
}
