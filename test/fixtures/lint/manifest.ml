(* Manifest drift: the test's manifest names [probe] and [ghost]
   (logical path lib/misc/hot9.ml), but only [probe] is defined here.
   [ghost] roots nothing, so LC004 and LC008 would audit an empty path;
   the linter must name it instead of passing silently. *)

let probe (cells : int array) j = cells.(j)
