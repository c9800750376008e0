module mqo/benchmark

go 1.24

require mqo v0.0.0

replace mqo => ../
