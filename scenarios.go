package latlab

import "embed"

// ExtFaultsScenarios holds the ext-faults-* scenario documents, the only
// declaration of that experiment family: internal/experiments registers
// each one through the scenario compiler, and latbench's -run corpus
// replays the same files from testdata/scenarios/.
//
//go:embed testdata/scenarios/ext-faults-*.json
var ExtFaultsScenarios embed.FS
