package sched

// RegisterWrongOffset exposes registerWrongOffset to the package's
// external tests, which reach the schedule registry directory
// (internal/schedreg) that imports this package.
var RegisterWrongOffset = registerWrongOffset
