type t = float
