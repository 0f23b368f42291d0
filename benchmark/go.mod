module crossbow/benchmark

go 1.21

require crossbow v0.0.0

replace crossbow => ../
