package label

// MidOnlyIndex is midOnlyIndex for the external test package.
var MidOnlyIndex = midOnlyIndex
