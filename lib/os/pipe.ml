let transfer_cost_ns ~bytes_len = 120. +. (0.05 *. float_of_int bytes_len)
