let make () = 1
