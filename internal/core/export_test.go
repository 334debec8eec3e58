package core

// MapDevices is the number of devices pm spreads over, for the external
// tests of this package.
func MapDevices(pm PageMap) int { return pm.devices }
