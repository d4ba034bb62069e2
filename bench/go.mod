module mdm/bench

go 1.24.0

require mdm v0.0.0

replace mdm => ../
