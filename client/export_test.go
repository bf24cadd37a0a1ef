package client

// TerminalErr exposes terminalErr to the external test package, whose
// tests run a real server (internal/serve imports this package, so they
// cannot live inside it).
var TerminalErr = terminalErr
