package sim

// RequireIdentical exposes the field-by-field byte-identity check to the
// external test package, which replays the real applications.
var RequireIdentical = requireIdentical

// SummaryOf exposes the full-result reference the summary replay is
// tested against.
var SummaryOf = summaryOf
