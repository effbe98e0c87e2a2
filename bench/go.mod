module cnprobase/bench

go 1.22

require cnprobase v0.0.0

replace cnprobase => ../
