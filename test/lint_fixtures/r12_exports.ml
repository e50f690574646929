let used x = x + 1
let only_tests x = x + 2
let hook x = x + 3
let also_used x = x + 4
