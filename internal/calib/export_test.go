package calib

// Handles for the external test package (calib_test), which imports
// internal/serve — a consumer of loaded profiles that itself imports
// this package — and so cannot live in package calib.
var (
	TestProfile     = testProfile
	TestWorkload    = testWorkload
	PayloadChecksum = payloadChecksum
)

const ProfileFormat = profileFormat
