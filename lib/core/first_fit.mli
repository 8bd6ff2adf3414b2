(** First Fit (FF), Section 3.2: put each arriving item into the
    earliest opened bin that can accommodate it; open a new bin only
    when none fits.  Theorems 4 and 5 bound its competitive ratio by
    [k/(k-1) mu + 6k/(k-1) + 1] (all sizes < W/k) and [2 mu + 13]
    (general case).

    The handler scans the open-bin views.  On the engine's fixed-point
    track the same decision comes from the engine's max-residual
    index instead ({!Policy.t.first_fit}), in O(log open bins); the
    handler still serves the exact track and {!Simulator_naive}. *)

val policy : Policy.t
