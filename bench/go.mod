module gpm/bench

go 1.24

require gpm v0.0.0

replace gpm => ../
