let make () = 2
