package core

// MapDevices is the number of devices pm spreads over, for the external
// tests of this package.
func MapDevices(pm PageMap) int { return pm.devices }

// FenceFlipWait is how long a fenced operation parks for the map flip.
const FenceFlipWait = fenceFlipWait
