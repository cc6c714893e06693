module dynautosar/bench

go 1.23

require dynautosar v0.0.0

replace dynautosar => ../
