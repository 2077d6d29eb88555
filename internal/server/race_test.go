//go:build race

package server

func init() { raceBuild = true }
