package graph

// OracleColor exposes the test-local coloring oracle to the external
// graph_test package.
var OracleColor = oracleColor
